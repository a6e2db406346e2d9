"""CLI behavior: output formats, determinism, cache lifecycle, error paths."""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from arborq import algebra, cache as C, serialize, solvers as S, trees as T, verify as vf
from arborq.algebra import QPoly, QRat, XPoly
from arborq.cli import COSTLY_ORDER, SERIES, main
from tests import serialize_reference as SR
from tests.test_verify import CORRUPT_TREE, corrupt


def run_cli(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["compute", "pawn", "--order", "2"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["series"] == "pawn"
        assert obj["order"] == 2
        assert obj["params"] == {}
        assert [e[0] for e in obj["entries"]] == ["()", "(())"]

    def test_json_deterministic_across_runs(self, capsys):
        _, out1, _ = run_cli(["compute", "omega", "--order", "4"], capsys)
        _, out2, _ = run_cli(["compute", "omega", "--order", "4"], capsys)
        assert out1 == out2

    def test_parallel_matches_single_worker(self, capsys):
        _, out1, _ = run_cli(["compute", "pawn", "--order", "4", "--workers", "1"], capsys)
        _, out4, _ = run_cli(["compute", "pawn", "--order", "4", "--workers", "4"], capsys)
        assert out1 == out4

    def test_workers_start_no_thread(self, capsys, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        code, out, _ = run_cli(["compute", "pawn", "--order", "4", "--workers", "4"], capsys)
        assert code == 0 and json.loads(out)["order"] == 4
        code, out, _ = run_cli(["verify", "--suite", "oracle_colorings,oracle_interpolation",
                                "--max-order", "4", "--workers", "2"], capsys)
        assert code == 0 and out.endswith("2/2 checks passed\n")

    def test_import_loads_no_thread_pool(self):
        # verify's fork pool imports pickle only when it forks
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, arborq.cli; print(sorted(m for m in ("
             "'pickle', 'multiprocessing', 'concurrent.futures') if m in sys.modules))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.stdout == "[]\n"

    def test_closed_pipe_exits_quietly(self):
        # the 689 KB pawn order-8 json fills the pipe before the reader goes
        # away: the next write fails, and the command exits 1 with no traceback
        proc = subprocess.Popen(
            [sys.executable, "-m", "arborq", "compute", "pawn", "--order", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.stdout.read(600).startswith(b'{"entries":')
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert b"Traceback" not in err and err == b""

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["compute", "F", "--n", "0", "--order", "5", "--format", "csv"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "size,encoding,coefficient"
        # the all-ones series: every coefficient is 1
        assert all(line.endswith(",1") for line in lines[1:])
        assert len(lines) - 1 == 1 + 1 + 2 + 4 + 9

    def test_tex_first_terms(self, capsys):
        code, out, _ = run_cli(
            ["compute", "pawn", "--order", "2", "--format", "tex"], capsys
        )
        assert code == 0
        assert "qx + 1" in out
        assert "\\Phi_{2}" in out
        assert "q^{3}x^{2} + (2q^{2} + q)x + q + 1" in out

    def test_tex_omega_bar_factored_denominators(self, capsys):
        code, out, _ = run_cli(
            ["compute", "omega_bar", "--order", "4", "--format", "tex"], capsys
        )
        assert code == 0
        assert "\\frac{1}{\\Phi_{2}\\Phi_{4}}" in out        # linear tree, 4 vertices
        assert "\\frac{-q + 1}{\\Phi_{2}\\Phi_{3}\\Phi_{4}}" in out  # 3-corolla

    def test_omega_bar_order4_has_eight_entries(self, capsys):
        _, out, _ = run_cli(["compute", "omega_bar", "--order", "4"], capsys)
        assert len(json.loads(out)["entries"]) == 8

    def test_missing_n_for_F(self, capsys):
        with pytest.raises(SystemExit):
            main(["compute", "F", "--order", "3"])

    def test_pawn_at_requires_n(self, capsys):
        with pytest.raises(SystemExit):
            main(["compute", "pawn_at", "--order", "3"])

    def test_G_csv(self, capsys):
        code, out, _ = run_cli(["compute", "G", "--n", "1", "--order", "3", "--format", "csv"],
                               capsys)
        assert code == 0
        assert out.splitlines() == ["size,encoding,coefficient", "1,(),q + 1", "2,(()),q",
                                    "3,(()()),q"]

    @pytest.mark.parametrize("fmt", ["csv", "tex"])
    def test_cold_csv_and_tex_encode_no_payload(self, fmt, capsys, monkeypatch):
        # with no cache to store into, nothing reads a json payload
        monkeypatch.delenv("ARBORQ_CACHE_DIR", raising=False)
        argv = ["compute", "pawn", "--order", "3", "--format", fmt]
        _, want, _ = run_cli(argv, capsys)

        def no_payload(ring, values):
            raise AssertionError("a payload was built")

        monkeypatch.setattr(serialize, "entries_json", no_payload)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == want

    def test_pawn_at_zero_is_all_ones(self, capsys):
        code, out, _ = run_cli(
            ["compute", "pawn_at", "--n", "0", "--order", "4", "--format", "csv"], capsys
        )
        assert code == 0
        assert all(line.endswith(",1") for line in out.strip().splitlines()[1:])

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["compute", "E", "--order", "3", "--out", str(target)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["series"] == "E"

    def test_out_file_that_cannot_be_opened(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(["compute", "E", "--order", "2", "--out", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write ") and str(target) in err
        assert len(err.splitlines()) == 1

    def test_cost_warning(self, capsys, tmp_path):
        argv = ["compute", "E", "--order", str(COSTLY_ORDER), "--cache-dir", str(tmp_path)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0
        assert "warning" in err
        # a cache hit solves nothing and does not warn, nor does a cheaper order
        code, _, err = run_cli(argv, capsys)
        assert code == 0 and err == ""
        code, _, err = run_cli(["compute", "E", "--order", str(COSTLY_ORDER - 1)], capsys)
        assert code == 0 and err == ""

    def test_second_pass_over_every_series_runs_no_gcd(self, monkeypatch):
        # once a first pass has filled the memos and the q-factorial tables,
        # every value is reduced from an engine numerator over q^a prod Phi_d^e
        # or is a coloring polynomial, with no gcd
        def run():
            for name, (_ring, n_usage, values) in SERIES.items():
                for n in (3, -3) if name == "pawn_at" else (2,) if n_usage else (None,):
                    assert list(values(S, n, 7))

        run()
        calls = []
        for name in ("qpoly_gcd", "qpoly_gcd_cofactors"):
            monkeypatch.setattr(algebra, name, lambda a, b, gcd=getattr(algebra, name):
                                calls.append(1) or gcd(a, b))
        run()
        assert not calls


# Run in a fresh interpreter: the CLI's main(argv) with stdout captured, then
# print the exit code and the names of every loaded module.
MODULES_AFTER = """
import contextlib, io, json, sys
import arborq.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = arborq.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


GRAMMARS_AFTER = """
import contextlib, io, json, sys
import arborq.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert arborq.cli.main(sys.argv[1:]) == 0
serialize = sys.modules.get("arborq.serialize")
print(json.dumps([arborq.cache._ENTRY_MATCH is not None,
                  bool(serialize and serialize._grammar.cache_info().currsize)]))
"""


def modules_after(argv) -> tuple[int | None, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_AFTER, *argv], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


class TestModuleLoading:
    """Each process loads only what its command runs: importing the CLI, the
    cache commands and a json cache hit load no math layer and no checks, and
    no command loads OpenSSL: the cache hashes with the interpreter's own
    SHA-256."""

    HEAVY = {"arborq.algebra", "arborq.solvers", "arborq.verify", "arborq.serialize"}

    def test_cache_commands_load_no_math_layer(self, tmp_path, capsys):
        cdir = str(tmp_path)
        hit = ["compute", "pawn", "--order", "3", "--format", "json", "--cache-dir", cdir]
        assert run_cli(hit, capsys)[0] == 0
        for argv in ([], ["cache", "list", "--dir", cdir],
                     ["cache", "verify-hashes", "--dir", cdir], hit):
            code, modules = modules_after(argv)
            assert code in (None, 0), argv
            assert "arborq.cache" in modules and not modules & self.HEAVY, argv
            assert "_hashlib" not in modules, argv

    @pytest.mark.parametrize("argv", [
        ["compute", "omega", "--order", "3"],
        ["verify", "--suite", "oracle_colorings", "--max-order", "3"],
    ])
    def test_math_layers_load_no_dataclasses(self, argv):
        # dataclasses loads inspect, which every cold command would pay for
        code, modules = modules_after(argv)
        assert code == 0 and "arborq.solvers" in modules
        assert not modules & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("argv, stored, compiled", [
        ([], False, [False, False]),
        (["compute", "omega", "--order", "3"], False, [False, False]),
        (["verify", "--suite", "prop_gen", "--max-order", "3"], False, [False, False]),
        (["compute", "omega", "--order", "3", "--cache-dir", "{dir}"], False, [False, False]),
        (["compute", "omega", "--order", "3", "--cache-dir", "{dir}"], True, [True, False]),
        (["compute", "omega", "--order", "3", "--format", "csv", "--cache-dir", "{dir}"], True,
         [True, True]),
    ])
    def test_grammars_are_compiled_on_first_use(self, tmp_path, capsys, argv, stored,
                                                compiled):
        # a command that reads no cache entry compiles neither the entry
        # grammar nor the value grammar; a json hit compiles the first, and
        # a csv hit both
        if stored:
            run_cli(["compute", "omega", "--order", "3", "--cache-dir", str(tmp_path)], capsys)
        proc = subprocess.run(
            [sys.executable, "-c", GRAMMARS_AFTER,
             *[arg.replace("{dir}", str(tmp_path)) for arg in argv]],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert json.loads(proc.stdout) == compiled

    def test_compute_without_cache_loads_no_openssl(self):
        code, modules = modules_after(["compute", "omega", "--order", "3"])
        assert code == 0 and "arborq.solvers" in modules
        assert "_hashlib" not in modules

    def test_storing_and_rendering_load_no_openssl(self, tmp_path):
        # the cache commands and a json hit are checked above
        cdir = str(tmp_path)
        compute = ["compute", "pawn", "--order", "3", "--cache-dir", cdir, "--format"]
        for argv in ([*compute, "json"], [*compute, "csv"], [*compute, "tex"],
                     ["cache", "gc", "--dir", cdir]):
            code, modules = modules_after(argv)
            assert code == 0 and "_hashlib" not in modules, argv
        assert len(os.listdir(cdir)) == 1

    def test_trees_load_no_other_layer(self):
        # the tree combinatorics runs on Python ints and imports no arithmetic
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys, arborq.trees; print(json.dumps("
             "sorted(m for m in sys.modules if m.startswith('arborq'))))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert json.loads(proc.stdout) == ["arborq", "arborq.trees"]

    def test_package_names_are_the_algebra_names(self):
        import arborq
        from arborq import algebra as al

        assert arborq.QPoly is al.QPoly
        assert all(getattr(arborq, name) is getattr(al, name) for name in arborq.__all__)
        assert set(arborq.__all__) <= set(dir(arborq))
        with pytest.raises(AttributeError):
            arborq.no_such_name



class TestByteIdentity:
    """sha256 of the canonical JSON (with its trailing newline) of series
    whose values come from the fraction-free engine, pinned to the output of
    the earlier gcd-reduced QRat recursions."""

    @pytest.mark.parametrize(
        "series, order, digest",
        [
            ("pawn", 8, "74e798a2d0ea2376cf018c012d8080226f3e9665c2e74ce143f9867b3b8592ba"),
            ("omega", 9, "130ea4a6ca87cd79bd592ab2f4e81ec310e17490d5260af4cecc6ef571e3d351"),
            ("omega_bar", 9, "56a3b988de5131f9cbcaa42cbc59360aec429460858f4ae6765dfc1ae7b44e2c"),
        ],
    )
    def test_canonical_json_digest(self, series, order, digest, capsys):
        code, out, _ = run_cli(["compute", series, "--order", str(order)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, digest",
        [
            (3, "0cce6d61eddaa6d87816097e8128563dd44ff1961f604981a771cb9f1374218c"),
            (-2, "868b13fd88e2ae8135c6add59ae080ffca1ee9933930c12f532ad0043c3363cd"),
        ],
    )
    def test_pawn_at_digest(self, n, digest, capsys):
        # pinned to P_T evaluated at x = [n]_q in QRat arithmetic
        code, out, _ = run_cli(["compute", "pawn_at", "--n", str(n), "--order", "7"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def entry_corpus(cdir: str, capsys) -> list[str]:
    """Fill cdir with entry files of every kind, stored or hand-written,
    corrupt or not; return the names of those store wrote of a whole
    payload."""
    for argv in (["pawn", "--order", "3"], ["omega", "--order", "3"], ["E", "--order", "2"],
                 ["pawn_at", "--n", "-2", "--order", "3"]):
        run_cli(["compute", *argv, "--cache-dir", cdir], capsys)
    C.store(cdir, dict(C.make_key("E", {}, 3), version=C.FORMAT_VERSION - 1),
            [C.canonical_json({"series": "E", "params": {}, "order": 3, "entries": []})])
    params, entries = {"n": "\u00e9\"\\"}, [["\n", "1/1"]]
    C.store(cdir, C.make_key("\u00e9", params, 3), [C.canonical_json(
        {"series": "\u00e9", "params": params, "order": 3, "entries": entries})])
    # a two-digit order, which a chunk may split between its digits
    C.store(cdir, C.make_key("E", {}, 12), [C.canonical_json(
        {"series": "E", "params": {}, "order": 12, "entries": []})])
    stored = sorted(os.listdir(cdir))
    # stored too, but with no order or params: not a payload payload_pieces makes
    C.store(cdir, C.make_key("\u00e9", {"n": 1}, 3),
            [C.canonical_json({"series": "\u00e9", "entries": entries})])
    with open(C.entry_path(cdir, C.make_key("E", {}, 2))) as fh:
        text = fh.read()
    key = C.make_key("omega", {}, 3)
    good = {"series": "omega", "params": {}, "order": 3, "entries": [["()", "x"]]}

    def laid_out(payload, k=key):  # as store writes it
        return C.canonical_json({"key": k, "payload": payload,
                                 "sha256": C.payload_hash(C.canonical_json(payload))}) + "\n"

    corrupt = json.loads(text)
    corrupt["payload"]["entries"][0][1]["num"] = [[0, "2/1"]]
    files = {
        "a-spaced": json.dumps(json.loads(text)),
        "a-corrupt": json.dumps(corrupt),
        "b-trailing-space": text + " ",
        "c-flipped-digit": text.replace('"1/1"', '"2/1"', 1),
        "c-renamed-hash": text.replace('"sha256":', '"sha257":'),
        "c-renamed-payload": text.replace('"payload":', '"paylaod":'),
        "d-truncated": text[:len(text) // 2],
        "d-truncated-in-the-hash": text[:-3],
        "b-stray-byte": text + "x",
        "e-empty": "",
        "f-list": "[]\n",
        "g-spaced-entry": laid_out(good).replace('["()","x"]', '["()", "x"]'),
        "g-spaced-params": laid_out(good).replace('"params":{},"series":"omega"}',
                                                  '"params":{ },"series":"omega"}'),
        "g-spaced-last-field": laid_out(dict(good, zz=1)).replace('"zz":1}', '"zz":1 }'),
        "g-brace-for-bracket": laid_out(good).replace('["()","x"]]', '["()","x"]}'),
        "h-extra-field": laid_out(dict(good, ring="qrat")),
        "h-field-before-entries": laid_out(dict(good, a=1)),
        # UTF-8 for an escape: a non-canonical entry, which a chunk may split
        "i-raw-utf8": laid_out(dict(good, entries=[["\u00e9", "x"]])).replace(
            "\\u00e9", "\u00e9"),
    }
    for i, (k, payload) in enumerate([(key, []), (key, {"order": 3}), (key, good),
                                      ([1], {"entries": []})]):
        files[f"k{i}-dumped"] = json.dumps(
            {"key": k, "payload": payload, "sha256": C.payload_hash(C.canonical_json(payload))})
        files[f"k{i}-stored"] = laid_out(payload, k)
    for name, body in files.items():
        with open(os.path.join(cdir, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(body)
    return stored


def payload_of(path: str) -> tuple[dict, str]:
    """The key and the payload text of the checked entry file at path."""
    out = io.StringIO()
    with C._read_entry(path) as entry:
        entry.write_payload(out)
    return entry.key, out.getvalue()


def lean_render(path: str, fmt: str):
    """The csv or tex table a hit on the entry file at path prints, each entry
    rendered as the load reads it; or the type of the exception it raises."""
    import arborq.cli as cli

    try:
        with C._read_entry(path) as entry:
            key = entry.key
        ring = cli.SERIES.get(key["series"], ("qrat",))[0]
        text = cli._coefficient_text(fmt, ring)
        with C._read_entry(path, cli._hit_reader(ring, key["order"], text)) as entry:
            rows = cli._hit_rows(entry.items)
    except Exception as exc:
        return type(exc)
    out = io.StringIO()
    cli._write_table(out, fmt, key["series"], key["order"], rows)
    return out.getvalue()


def object_render(path: str, fmt: str):
    """The same table by the object path: the whole payload read back into a
    TreeSeries, whose values are then rendered; or the exception's type."""
    import arborq.cli as cli

    try:
        key, text = payload_of(path)
        series = SR.series_from_obj({"order": key["order"],
                                     "ring": cli.SERIES.get(key["series"], ("qrat",))[0],
                                     "entries": json.loads(text)["entries"]})
    except Exception as exc:
        return type(exc)
    return SR.render_table(series, fmt, key["series"])


class TestCache:
    def test_roundtrip(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        args = ["compute", "omega_bar", "--order", "3", "--cache-dir", cdir]
        _, out1, _ = run_cli(args, capsys)
        assert len(os.listdir(cdir)) == 1
        _, out2, _ = run_cli(args, capsys)  # served from cache
        assert out1 == out2
        code, out, _ = run_cli(["cache", "list", "--dir", cdir], capsys)
        assert code == 0 and "omega_bar" in out and "1 entries" in out
        code, _, _ = run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)
        assert code == 0

    def test_cache_tex_render_of_xpoly_ring(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        _, fresh, _ = run_cli(
            ["compute", "pawn", "--order", "3", "--format", "tex", "--cache-dir", cdir],
            capsys,
        )
        _, cached, _ = run_cli(
            ["compute", "pawn", "--order", "3", "--format", "tex", "--cache-dir", cdir],
            capsys,
        )
        assert fresh == cached

    def test_tex_denominator_that_is_not_a_cyclotomic_product(self, tmp_path, capsys):
        # at x = [-2]_q the one-vertex coefficient 1 + qx is -1/q: its
        # denominator q has the exponent pair (0, 1), which cli._over_tex
        # prints as (q), both cold and from a hit
        args = ["compute", "pawn_at", "--n", "-2", "--order", "3", "--format", "tex",
                "--cache-dir", str(tmp_path)]
        _, fresh, _ = run_cli(args, capsys)
        code, cached, _ = run_cli(args, capsys)
        assert code == 0 and cached == fresh
        assert fresh.splitlines()[2:-1] == ["&\\frac{-1}{(q)} \\cdot \\texttt{()} \\\\"]

    def test_cache_csv_render_from_cache(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        _, fresh, _ = run_cli(
            ["compute", "omega", "--order", "3", "--format", "csv", "--cache-dir", cdir],
            capsys,
        )
        _, cached, _ = run_cli(
            ["compute", "omega", "--order", "3", "--format", "csv", "--cache-dir", cdir],
            capsys,
        )
        assert fresh == cached

    def test_json_hit_renders_payload_without_parsing(self, tmp_path, capsys, monkeypatch):
        cdir = str(tmp_path / "cache")
        args = ["compute", "pawn", "--order", "3", "--cache-dir", cdir]
        _, fresh, _ = run_cli(args, capsys)

        def no_parse(_ring, _value):
            raise AssertionError("json cache hit parsed the payload")

        monkeypatch.setattr("arborq.serialize.value_from_obj", no_parse)
        monkeypatch.setattr("arborq.serialize.value_from_text", no_parse)
        code, cached, _ = run_cli(args, capsys)
        assert code == 0 and cached == fresh
        with pytest.raises(AssertionError):
            main([*args, "--format", "csv"])

    @pytest.mark.parametrize("series,order,fmt", [
        ("pawn", 6, "csv"), ("pawn", 6, "tex"), ("omega", 7, "csv"), ("omega", 7, "tex"),
        ("pawn_at", 6, "csv"), ("pawn_at", 6, "tex")])
    def test_csv_and_tex_hits_run_no_gcd(self, tmp_path, capsys, monkeypatch, series, order, fmt):
        # a stored value is reduced over q^a prod Phi_d^e: reading and
        # rendering it back needs no polynomial gcd and no polynomial division
        # (pawn_at at [-3]_q has powers of q in its denominators)
        cdir = str(tmp_path / "cache")
        args = ["compute", series, "--order", str(order), "--format", fmt]
        if series == "pawn_at":
            args += ["--n", "-3"]
        _, fresh, _ = run_cli(args, capsys)
        run_cli([*args, "--cache-dir", cdir], capsys)
        calls = []
        for name in ("qpoly_gcd", "qpoly_gcd_cofactors"):
            monkeypatch.setattr(algebra, name, lambda a, b, gcd=getattr(algebra, name):
                                calls.append("gcd") or gcd(a, b))
        divmod_ = QPoly.__divmod__
        monkeypatch.setattr(QPoly, "__divmod__", lambda a, b: calls.append("div") or divmod_(a, b))
        code, cached, _ = run_cli([*args, "--cache-dir", cdir], capsys)
        assert code == 0 and cached == fresh
        assert not calls

    def test_cold_tex_render_divides_no_polynomial(self, capsys, monkeypatch):
        # each x-coefficient's cofactor over the common denominator is built
        # from exponents; a first run fills the table of q-factorial
        # quotients (through QRat), so the second counts the reduction and
        # the rendering of every value
        args = ["compute", "pawn", "--order", "7", "--format", "tex"]
        _, want, _ = run_cli(args, capsys)
        calls = []
        divmod_ = QPoly.__divmod__
        monkeypatch.setattr(QPoly, "__divmod__", lambda a, b: calls.append(1) or divmod_(a, b))
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out == want and not calls

    def test_hit_sharing_a_cyclotomic_factor_reads_canonical(self, tmp_path, capsys):
        # a stored value whose numerator shares Phi_2 and Phi_3 with its
        # denominator: they are divided out of both, and the value read is
        # the canonical QRat(num, den)
        cdir = str(tmp_path)
        num = algebra.QPoly((5, 0, 1)) * algebra.cyclotomic(2) * algebra.cyclotomic(3)
        den = algebra.cyclotomic(2) ** 2 * algebra.cyclotomic(3) * algebra.cyclotomic(4)
        value = {"num": SR.qpoly_to_pairs(num), "den": SR.qpoly_to_pairs(den)}
        want = algebra.QRat(num, den)
        assert want.den == algebra.cyclotomic(2) * algebra.cyclotomic(4)
        assert serialize.qrat_from_obj(value) == want
        payload = {"series": "omega", "params": {}, "order": 1, "entries": [["()", value]]}
        path = C.store(cdir, C.make_key("omega", {}, 1), [C.canonical_json(payload)])
        args = ["compute", "omega", "--order", "1", "--format", "csv", "--cache-dir", cdir]
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out.splitlines()[1:] == [f"1,(),{want}"]
        for fmt in ("csv", "tex"):
            assert lean_render(path, fmt) == object_render(path, fmt)

    def test_corruption_detected(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        (name,) = os.listdir(cdir)
        path = os.path.join(cdir, name)
        with open(path) as fh:
            entry = json.load(fh)
        entry["payload"]["entries"][0][1]["num"] = [[0, "2/1"]]
        with open(path, "w") as fh:
            json.dump(entry, fh)
        code, _, err = run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        assert code == 1
        assert "hash mismatch" in err
        code, out, _ = run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)
        assert code == 1 and "BAD" in out

    def test_entries_that_are_not_objects_are_corrupt(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        payload = {"entries": []}
        with open(os.path.join(cdir, "x-list.json"), "w") as fh:
            fh.write("[]\n")
        with open(os.path.join(cdir, "y-key.json"), "w") as fh:
            json.dump({"key": [1], "payload": payload,
                       "sha256": C.payload_hash(C.canonical_json(payload))}, fh)
        code, out, err = run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)
        assert code == 1 and "Traceback" not in err
        assert out.splitlines()[1:3] == ["BAD  x-list.json", "BAD  y-key.json"]
        assert out.splitlines()[-1] == "1/3 entries verified"
        code, out, _ = run_cli(["cache", "list", "--dir", cdir], capsys)
        assert code == 0 and out.count("corrupt:") == 2 and "3 entries" in out
        assert [(name, isinstance(e, C.CacheEntry)) for name, e in C.scan(cdir)][1:] == [
            ("x-list.json", False), ("y-key.json", False)]
        assert [isinstance(e, C.CacheEntry) for _, e in C.scan(cdir)] == [True, False, False]

    def test_entry_whose_key_is_not_the_request(self, tmp_path, capsys):
        cdir = str(tmp_path)
        payload = {"series": "E", "params": {}, "order": 3, "entries": []}
        path = C.store(cdir, C.make_key("E", {}, 3), [C.canonical_json(payload)])
        wanted = C.entry_path(cdir, C.make_key("E", {}, 2))
        os.replace(path, wanted)
        code, out, err = run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        assert code == 1 and out == ""
        assert err == f"error: {wanted}: stored key does not match the request\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "tex"])
    def test_payloads_that_do_not_match_their_key(self, tmp_path, capsys, fmt):
        # each entry has a valid sha256 of its payload, so only the payload's
        # shape tells it apart from a good one
        cdir = str(tmp_path / "cache")
        args = ["compute", "omega", "--order", "3", "--format", fmt, "--cache-dir", cdir]
        key = C.make_key("omega", {}, 3)
        good = {"series": "omega", "params": {}, "order": 3, "entries": [["()", "x"]]}
        for payload, hit in [([], False), ({"order": 3}, False), (good, True)]:
            path = C.entry_path(cdir, key)
            os.makedirs(cdir, exist_ok=True)
            with open(path, "w") as fh:
                json.dump({"key": key, "payload": payload,
                           "sha256": C.payload_hash(C.canonical_json(payload))}, fh)
            code, out, err = run_cli(args, capsys)
            assert "Traceback" not in err
            if hit and fmt == "json":
                # a json hit renders the stored payload without parsing it
                assert code == 0 and json.loads(out) == payload
            else:
                assert code == 1 and out == "" and err.startswith("error: ")
            code, out, _ = run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)
            assert code == (0 if hit else 1)
            code, out, _ = run_cli(["cache", "list", "--dir", cdir], capsys)
            assert ("corrupt:" in out) != hit
            code, out, _ = run_cli(["cache", "gc", "--dir", cdir], capsys)
            assert f"removed {0 if hit else 1}" in out
            assert os.path.exists(path) == hit

    def test_gc_removes_stale_versions(self, tmp_path, capsys):
        cdir = str(tmp_path / "cache")
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        key = C.make_key("E", {}, 3)
        stale_key = dict(key, version=C.FORMAT_VERSION - 1)
        C.store(cdir, stale_key,
                [C.canonical_json({"series": "E", "params": {}, "order": 3, "entries": []})])
        assert len(os.listdir(cdir)) == 2
        code, out, _ = run_cli(["cache", "gc", "--dir", cdir], capsys)
        assert code == 0 and "removed 1" in out
        assert len(os.listdir(cdir)) == 1

    def test_a_json_command_encodes_the_payload_once(self, tmp_path, capsys, monkeypatch):
        import arborq.cli as cli

        argv = ["compute", "pawn", "--order", "3"]
        _, want, _ = run_cli(argv, capsys)
        entries = json.loads(want)["entries"]
        encoded, canonical_json = [], C.canonical_json
        written, xpoly_json = [], serialize.xpoly_json

        def counting(obj):
            encoded.append(obj)
            return canonical_json(obj)

        def writing(f):
            written.append(f)
            return xpoly_json(f)

        monkeypatch.setattr(C, "canonical_json", counting)
        monkeypatch.setattr(cli, "canonical_json", counting)
        monkeypatch.setitem(serialize._WRITERS, "xpoly", writing)
        # no cache, then a cold compute that stores, then a hit: each entry is
        # encoded once, written from its value; the hit's entry grammar shows
        # each stored entry canonical with no encoding, and the payload is
        # never encoded whole
        for extra, cold in (([], True), (["--cache-dir", str(tmp_path)], True),
                            (["--cache-dir", str(tmp_path)], False)):
            encoded.clear()
            written.clear()
            code, out, _ = run_cli(argv + extra, capsys)
            assert code == 0 and out == want, extra
            assert len(written) == (len(entries) if cold else 0), extra
            assert [obj for obj in encoded if isinstance(obj, list)] == []
            assert not [obj for obj in encoded if isinstance(obj, dict) and "entries" in obj]
        assert len(os.listdir(tmp_path)) == 1

    def test_store_writes_the_canonical_entry(self, tmp_path, capsys):
        # the payload is encoded once and written in pieces; the bytes must be
        # those of the entry encoded whole
        _, out, _ = run_cli(["compute", "pawn", "--order", "3"], capsys)
        key = C.make_key("pawn", {"n": "\u00e9\"\\"}, 3)
        for payload in (json.loads(out), {"series": "é", "entries": [["\n", "1/1"]]}):
            text = C.canonical_json(payload)
            path = C.store(str(tmp_path), key, [text])
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
            assert written == C.canonical_json(
                {"key": key, "payload": payload, "sha256": C.payload_hash(text)}) + "\n"

    PAYLOAD_CASES = [("pawn", None), ("E", None), ("F", 2), ("G", 1), ("G", 2), ("omega", None),
                     ("omega_bar", None), ("pawn_at", 3), ("pawn_at", -2)]

    @pytest.mark.parametrize("name, n", PAYLOAD_CASES)
    def test_payload_text_is_the_canonical_payload(self, name, n):
        # the writer against the object path it replaced: canonical_json of
        # value_to_obj, entry by entry and for the whole payload
        import arborq.cli as cli

        assert {case for case, _ in self.PAYLOAD_CASES} == set(cli.SERIES)
        ring, _, values = cli.SERIES[name]
        pairs = list(values(S, n, 5))
        params = {} if n is None else {"n": n}
        texts = list(serialize.entries_json(ring, pairs))
        assert texts == [SR.entry_text(ring, t, v) for t, v in pairs if v]
        payload = {"series": name, "params": params, "order": 5,
                   "entries": [json.loads(text) for text in texts]}
        assert "".join(C.payload_pieces(name, params, 5, iter(texts))) \
            == C.canonical_json(payload)

    def test_payload_text_of_unicode_and_empty_payloads(self):
        for series, params, entries in (("\u00e9", {"n": "\u00e9\"\\"}, [["\n", "1/1"]]),
                                        ("E", {}, [])):
            pieces = C.payload_pieces(series, params, 3, map(C.canonical_json, entries))
            assert "".join(pieces) == C.canonical_json(
                {"series": series, "params": params, "order": 3, "entries": entries})

    def test_pawn_order_8_entry_file(self, tmp_path, capsys):
        # the whole entry file, key, payload and hash, as the object path wrote it
        code, out, _ = run_cli(["compute", "pawn", "--order", "8", "--cache-dir", str(tmp_path)],
                               capsys)
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
            "74e798a2d0ea2376cf018c012d8080226f3e9665c2e74ce143f9867b3b8592ba"
        assert name == "pawn-cf03c8978cd16241.json"
        assert digest == "a7f1c6339c168d7b3a514812ddeed759b17c27908b8df016091bad9bc0ef63f6"
        # the cache's own SHA-256 is hashlib's: the stored hash, the hash the
        # load takes and the key hash in the file name
        with C.load(str(tmp_path), C.make_key("pawn", {}, 8)) as entry:
            assert entry.sha256 == entry.digest == hashlib.sha256(out[:-1].encode()).hexdigest()
        assert C.key_hash(entry.key) == hashlib.sha256(
            C.canonical_json(entry.key).encode()).hexdigest()

    def test_digests_are_hashlib_digests(self, tmp_path, capsys):
        # every entry of the corpus that reads, streamed or parsed whole
        cdir = str(tmp_path)
        entry_corpus(cdir, capsys)
        checked = 0
        for name, entry in C.scan(cdir):
            if isinstance(entry, C.CacheError):
                continue
            key, text = payload_of(os.path.join(cdir, name))
            assert entry.digest == entry.sha256 == hashlib.sha256(text.encode()).hexdigest()
            assert C.payload_hash(text) == entry.digest
            assert C.key_hash(key) == hashlib.sha256(C.canonical_json(key).encode()).hexdigest()
            checked += 1
        assert checked > 8

    def test_a_load_holds_no_copy_of_the_payload(self, tmp_path):
        # about 5 MB of entries: the load's peak is a chunk and an entry or
        # two, not the payload's bytes or its text
        import tracemalloc

        entries = (C.canonical_json([f"({i})", [[0, f"{i}/7"], [3, "-1/1"]] * 5])
                   for i in range(40_000))
        key = C.make_key("E", {}, 3)
        path = C.store(str(tmp_path), key, C.payload_pieces("E", {}, 3, entries))
        size = os.path.getsize(path)
        assert size > 4_000_000
        tracemalloc.start()
        try:
            entry = C.load(str(tmp_path), key)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < size / 4
        with entry:
            assert entry.file is not None and entry.digest == entry.sha256

    @pytest.mark.parametrize("chunk", [7, 1 << 16])
    def test_a_json_hit_prints_the_bytes_it_checked(self, tmp_path, capsys, monkeypatch,
                                                   chunk):
        # the entry is replaced on disk once the load has checked it: the hit
        # copies the checked payload out of the file it opened, not the new one
        cdir = str(tmp_path)
        argv = ["compute", "pawn", "--order", "4", "--cache-dir", cdir]
        _, want, _ = run_cli(argv, capsys)
        path = C.entry_path(cdir, C.make_key("pawn", {}, 4))
        with open(path, "rb") as fh:
            checked = fh.read()
        other = os.path.join(cdir, "other")
        with open(other, "w") as fh:
            fh.write(checked.decode().replace('"1/1"', '"2/1"'))
        monkeypatch.setattr(C, "_CHUNK", chunk)
        load = C.load

        def replaced_after_the_check(*args):
            entry = load(*args)
            os.replace(other, path)
            return entry

        monkeypatch.setattr(C, "load", replaced_after_the_check)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and out == want
        # the file now at path fails its hash, and a hit on it prints nothing
        monkeypatch.setattr(C, "load", load)
        with open(path, "rb") as fh:
            assert fh.read() != checked
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "") and err == f"error: {path}: payload hash mismatch\n"

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    def test_streamed_reader_agrees_with_the_whole_parse(self, tmp_path, capsys, monkeypatch,
                                                         chunk):
        # the entry files of this class, stored or hand-written, corrupt or
        # not: each reads to the same entry or the same error whether a file
        # in store's layout is read an entry at a time or parsed whole; read
        # a byte or 7 bytes at a time, the key head, the entries, the header
        # and the tail each lie across chunks
        cdir = str(tmp_path)
        stored = entry_corpus(cdir, capsys)
        monkeypatch.setattr(C, "_CHUNK", chunk)

        def fields(scanned):
            name, entry = scanned
            if isinstance(entry, C.CacheError):
                return name, str(entry)
            out = io.StringIO()
            with C._read_entry(os.path.join(cdir, name), lambda e: e) as read:
                read.write_payload(out)
            return name, (entry.key, entry.header, entry.sha256, entry.digest, read.items,
                          out.getvalue())

        streamed, read_stored = [], C._read_stored

        def spy(fh, each):
            entry = read_stored(fh, each)
            if each is None:
                streamed.append(entry is not None)
            return entry

        monkeypatch.setattr(C, "_read_stored", spy)
        by_stream = [fields(scanned) for scanned in C.scan(cdir)]
        monkeypatch.setattr(C, "_read_stored", lambda fh, each: None)
        assert by_stream == [fields(scanned) for scanned in C.scan(cdir)]
        # the streamed reading took every file store wrote of a whole payload,
        # and of the others those in its exact layout: one whose hash then
        # fails, and one that a csv or tex hit then finds unreadable
        names = [name for name, _ in by_stream]
        assert {name for name, s in zip(names, streamed) if s} == {
            *stored, "c-flipped-digit.json", "k2-stored.json"}

    def test_lean_hit_renders_agree_with_the_object_renders(self, tmp_path, capsys,
                                                            monkeypatch):
        # a csv or tex hit renders each entry as the load reads it; on every
        # file of the corpus, read an entry at a time or parsed whole, that
        # is the table of the series the payload reads back to, or the same
        # error
        cdir = str(tmp_path)
        entry_corpus(cdir, capsys)
        tables = 0
        for whole in (False, True):
            if whole:
                monkeypatch.setattr(C, "_read_stored", lambda path, each: None)
            for name in sorted(os.listdir(cdir)):
                path = os.path.join(cdir, name)
                for fmt in ("csv", "tex"):
                    lean = lean_render(path, fmt)
                    assert lean == object_render(path, fmt), (name, fmt, whole)
                    tables += isinstance(lean, str)
        # pawn, omega, pawn_at and E at orders 2, 3 and 12, as store wrote
        # them, and two hand-made copies of the order-2 E entry; the rest are
        # errors
        assert tables == 2 * 2 * 8

    def test_a_hit_decodes_each_entry_once(self, tmp_path, capsys, monkeypatch):
        cdir = str(tmp_path)
        argv = ["compute", "pawn", "--order", "4", "--cache-dir", cdir]
        _, out, _ = run_cli(argv, capsys)
        entries = json.loads(out)["entries"]
        decoded = []

        class Counting(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                obj, end = super().raw_decode(s, idx)
                decoded.append(obj)
                return obj, end

        monkeypatch.setattr(C, "_DECODER", Counting())
        for fmt in ("csv", "tex"):
            decoded.clear()
            code, out, _ = run_cli([*argv, "--format", fmt], capsys)
            assert code == 0 and out
            # the key, then the three header fields, once each: every entry
            # of a file arborq wrote is matched by the entry grammar instead
            assert entries and decoded == [C.make_key("pawn", {}, 4), 4, {}, "pawn"]

    @pytest.mark.parametrize("fmt", ["csv", "tex"])
    @pytest.mark.parametrize("coeff, error", [("1/0", "ZeroDivisionError"), (5, "TypeError")])
    def test_unreadable_last_value_with_a_valid_hash(self, tmp_path, capsys, monkeypatch, fmt,
                                                     coeff, error):
        # laid out as store writes it, so read an entry at a time; a
        # coefficient that is not a string is unreadable too, not a traceback
        cdir = str(tmp_path)
        key = C.make_key("pawn", {}, 3)
        _, out, _ = run_cli(["compute", "pawn", "--order", "3"], capsys)
        payload = json.loads(out)
        payload["entries"][-1][1][0][1]["num"] = [[0, coeff]]
        path = C.store(cdir, key, [C.canonical_json(payload)])

        def no_parse(*args, **kwargs):
            raise AssertionError("an entry file was parsed whole")

        monkeypatch.setattr(json, "load", no_parse)
        code, out, err = run_cli(["compute", "pawn", "--order", "3", "--format", fmt,
                                  "--cache-dir", cdir], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: unreadable cached value ({error}(")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["csv", "tex"])
    @pytest.mark.parametrize("series, exponents", [
        ("omega", [-1, 0]),  # a negative exponent once indexed from the top
        ("omega", [0, 0]),  # a repeated exponent once kept the last term
        ("omega", [True]),  # a JSON true is a bool, not an exponent
        ("pawn", [-1, 0]),  # an x-exponent of a pawn value
        # exponents from 10^6 on, past the entry grammar's bound, were read
        # into a dense list that size: 10^15 once ended in a MemoryError
        ("omega", [10**15]),
        ("pawn", [10**15]),
        ("omega", [10**6]),
    ])
    def test_bad_exponent_with_a_valid_hash(self, tmp_path, capsys, fmt, series, exponents):
        # stored through store, so the hash holds and only the reading can
        # reject the value: no output, exit 1
        cdir = str(tmp_path)
        _, out, _ = run_cli(["compute", series, "--order", "1"], capsys)
        payload = json.loads(out)
        value = payload["entries"][0][1]
        if series == "pawn":
            value[:] = [[j, value[0][1]] for j in exponents]
        else:
            value["num"] = [[e, f"{k + 3}/1"] for k, e in enumerate(exponents)]
        path = C.store(cdir, C.make_key(series, {}, 1), [C.canonical_json(payload)])
        code, out, err = run_cli(["compute", series, "--order", "1", "--format", fmt,
                                  "--cache-dir", cdir], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: unreadable cached value (ValueError(")

    @pytest.mark.parametrize("fmt", ["csv", "tex"])
    @pytest.mark.parametrize("den", [[[0, "2/1"], [2, "1/1"]], [[0, "4/1"]]])
    def test_denominator_of_another_form_with_a_valid_hash(self, tmp_path, capsys, fmt, den):
        # arborq writes every denominator as q^a prod Phi_d^e; a stored q^2 + 2
        # or 4 is unreadable for a csv or tex hit: no output, exit 1
        cdir = str(tmp_path)
        _, out, _ = run_cli(["compute", "omega", "--order", "1"], capsys)
        payload = json.loads(out)
        payload["entries"][0][1]["den"] = den
        path = C.store(cdir, C.make_key("omega", {}, 1), [C.canonical_json(payload)])
        code, out, err = run_cli(["compute", "omega", "--order", "1", "--format", fmt,
                                  "--cache-dir", cdir], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: unreadable cached value (ValueError(")
        assert len(err.splitlines()) == 1
        # a json hit and verify-hashes check the hash and the layout only, so
        # they still accept the entry
        code, out, _ = run_cli(["compute", "omega", "--order", "1", "--cache-dir", cdir], capsys)
        assert code == 0 and json.loads(out) == payload
        assert run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)[0] == 0

    def test_a_stored_entry_is_never_held_whole(self, tmp_path, capsys, monkeypatch):
        # a cold compute encodes the payload an entry at a time, and a hit or
        # a cache command reads a stored entry with no whole-file parse
        cdir = str(tmp_path)
        argv = ["compute", "pawn", "--order", "4"]
        want = {fmt: run_cli([*argv, "--format", fmt], capsys)[1] for fmt in ("json", "csv", "tex")}
        canonical_json = C.canonical_json

        def no_whole_payload(obj):
            assert not (isinstance(obj, dict) and "entries" in obj), "payload encoded whole"
            return canonical_json(obj)

        monkeypatch.setattr(C, "canonical_json", no_whole_payload)
        assert run_cli([*argv, "--cache-dir", cdir], capsys)[:2] == (0, want["json"])

        def no_parse(*args, **kwargs):
            raise AssertionError("an entry file was parsed whole")

        monkeypatch.setattr(json, "load", no_parse)
        monkeypatch.setattr(json, "loads", no_parse)
        for fmt in ("json", "csv", "tex"):
            code, out, _ = run_cli([*argv, "--format", fmt, "--cache-dir", cdir], capsys)
            assert code == 0 and out == want[fmt], fmt
        for action in ("list", "verify-hashes"):
            code, out, _ = run_cli(["cache", action, "--dir", cdir], capsys)
            assert code == 0 and "corrupt" not in out and "BAD" not in out, action

    def test_gc_reports_an_entry_it_cannot_remove(self, tmp_path, capsys):
        os.mkdir(tmp_path / "x.json")
        code, out, err = run_cli(["cache", "gc", "--dir", str(tmp_path)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "x.json" in err and len(err.splitlines()) == 1

    def test_gc_skips_an_entry_removed_meanwhile(self, tmp_path, capsys, monkeypatch):
        # two gc runs at once: the other one removes each entry this one is
        # about to remove, which is then neither an error nor counted
        cdir = str(tmp_path)
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        C.store(cdir, dict(C.make_key("E", {}, 3), version=C.FORMAT_VERSION - 1),
                [C.canonical_json({"series": "E", "params": {}, "order": 3, "entries": []})])
        with open(os.path.join(cdir, "x-corrupt.json"), "w") as fh:
            fh.write("{")
        kept = C.entry_path(cdir, C.make_key("E", {}, 2))
        remove = os.remove

        def raced(path):
            remove(path)  # the other gc
            remove(path)

        monkeypatch.setattr(os, "remove", raced)
        assert run_cli(["cache", "gc", "--dir", cdir], capsys) == (
            0, "removed 0 stale entries\n", "")
        assert os.listdir(cdir) == [os.path.basename(kept)]

    def test_scan_skips_an_entry_removed_meanwhile(self, tmp_path, capsys, monkeypatch):
        # a gc running at once removes each entry after it is listed and
        # before it is read: it is gone, not corrupt
        cdir = str(tmp_path)
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        listdir = os.listdir

        def raced(path):
            names = listdir(path)
            for name in names:
                os.remove(os.path.join(path, name))  # the other gc
            return names

        monkeypatch.setattr(os, "listdir", raced)
        assert run_cli(["cache", "verify-hashes", "--dir", cdir], capsys) == (
            0, "0/0 entries verified\n", "")

    def test_a_whole_parse_survives_its_file_being_removed(self, tmp_path, capsys,
                                                            monkeypatch):
        # a file not in store's layout is parsed whole from the handle the
        # streamed reading had open, so a gc that removes the file meanwhile
        # does not make a good entry read as corrupt
        cdir = str(tmp_path)
        run_cli(["compute", "E", "--order", "2", "--cache-dir", cdir], capsys)
        (name,) = os.listdir(cdir)
        path = os.path.join(cdir, name)
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1)
        read_stored, streamed = C._read_stored, []

        def raced(fh, each):
            entry = read_stored(fh, each)
            streamed.append(entry is not None)
            os.remove(path)  # a gc
            return entry

        monkeypatch.setattr(C, "_read_stored", raced)
        assert run_cli(["cache", "verify-hashes", "--dir", cdir], capsys) == (
            0, f"ok   {name}\n1/1 entries verified\n", "")
        assert streamed == [False]

    def test_a_load_misses_an_entry_removed_meanwhile(self, tmp_path, capsys, monkeypatch):
        # removed between the load's exists check and its open: a miss, so
        # the series is computed and stored again
        cdir = str(tmp_path)
        argv = ["compute", "E", "--order", "2", "--cache-dir", cdir]
        want = run_cli(argv, capsys)
        path = C.entry_path(cdir, C.make_key("E", {}, 2))
        exists = os.path.exists

        def raced(p):
            found = exists(p)
            if p == path and found:
                os.remove(p)  # a gc
            return found

        monkeypatch.setattr(os.path, "exists", raced)
        assert run_cli(argv, capsys) == want
        assert exists(path)

    def test_cache_dir_that_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("")
        code, out, err = run_cli(["compute", "E", "--order", "2", "--cache-dir", str(target)],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(target) in err and len(err.splitlines()) == 1
        assert target.read_text() == ""

    @pytest.mark.parametrize("fmt", ["json", "csv", "tex"])
    def test_pawn_cache_dir_that_is_a_file(self, tmp_path, capsys, fmt):
        # the entry is written as the trees are solved: a store that fails
        # prints nothing, whatever the format
        target = tmp_path / "file"
        target.write_text("")
        code, out, err = run_cli(["compute", "pawn", "--order", "4", "--format", fmt,
                                  "--cache-dir", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: cannot write the cache entry: ") and str(target) in err
        assert len(err.splitlines()) == 1 and target.read_text() == ""

    def test_store_that_fails_midway_leaves_no_file(self, tmp_path):
        # the payload arrives as it is solved: a solver that raises leaves
        # neither an entry nor a temp file behind
        def pieces():
            yield '{"entries":['
            raise ArithmeticError("solver failed")

        with pytest.raises(ArithmeticError):
            C.store(str(tmp_path), C.make_key("E", {}, 2), pieces())
        assert os.listdir(tmp_path) == []

    def test_store_ignores_a_stale_shared_temp_path(self, tmp_path):
        key = C.make_key("E", {}, 2)
        payload = {"series": "E", "params": {}, "order": 2, "entries": []}
        os.makedirs(C.entry_path(str(tmp_path), key) + ".tmp")
        path = C.store(str(tmp_path), key, [C.canonical_json(payload)])
        out = io.StringIO()
        with C.load(str(tmp_path), key) as entry:
            entry.write_payload(out)
        assert (entry.key, out.getvalue()) == (key, C.canonical_json(payload))
        assert sorted(os.listdir(tmp_path)) == sorted(
            [os.path.basename(path), os.path.basename(path) + ".tmp"])

    def test_gc_removes_old_temp_files(self, tmp_path, capsys):
        cdir = str(tmp_path)
        path = C.store(cdir, C.make_key("E", {}, 2),
                       [C.canonical_json({"series": "E", "params": {}, "order": 2, "entries": []})])
        old, fresh = path + ".111.tmp", path + ".222.tmp"
        for tmp in (old, fresh):
            with open(tmp, "w") as fh:
                fh.write("{")
        past = time.time() - C.STALE_TMP_SECONDS - 60
        os.utime(old, (past, past))
        code, out, _ = run_cli(["cache", "gc", "--dir", cdir], capsys)
        assert code == 0 and "removed 1" in out
        # a writer may still be renaming the fresh one; the entry is kept
        assert sorted(os.listdir(cdir)) == sorted(
            [os.path.basename(path), os.path.basename(fresh)])

    def test_list_empty_dir(self, tmp_path, capsys):
        code, out, _ = run_cli(["cache", "list", "--dir", str(tmp_path)], capsys)
        assert code == 0 and "0 entries" in out

    def test_env_var_dir(self, tmp_path, capsys, monkeypatch):
        cdir = str(tmp_path / "envcache")
        monkeypatch.setenv("ARBORQ_CACHE_DIR", cdir)
        run_cli(["compute", "E", "--order", "2"], capsys)
        assert len(os.listdir(cdir)) == 1

    def test_cache_cmd_requires_dir(self, capsys, monkeypatch):
        monkeypatch.delenv("ARBORQ_CACHE_DIR", raising=False)
        code, _, err = run_cli(["cache", "list"], capsys)
        assert code == 2 and "ARBORQ_CACHE_DIR" in err

    @pytest.mark.parametrize("action", ["list", "gc", "verify-hashes"])
    def test_cache_cmd_rejects_a_dir_that_does_not_exist(self, action, tmp_path, capsys,
                                                         monkeypatch):
        # a typo in the path must not read as an empty, verified cache
        missing = str(tmp_path / "missing")
        code, out, err = run_cli(["cache", action, "--dir", missing], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and missing in err
        monkeypatch.setenv("ARBORQ_CACHE_DIR", missing)
        assert run_cli(["cache", action], capsys)[0] == 2
        assert not os.path.exists(missing)


# The pieces of entry texts on the grammar of cache._ENTRY_GRAMMAR and just
# off it: exponents, "p/r" strings, pair lists, denominators, values and
# encodings.  Of each one_of the last strategy is off the grammar, and the
# first is drawn three times as often.


def mostly(on, off):
    return st.integers(0, 3).flatmap(lambda i: on if i else off)


EXPONENT = mostly(st.integers(0, 3).map(str), st.sampled_from(["-1", "true", "03", "1.0"]))
COEFF_STRING = mostly(
    st.integers(-9, 9).map(lambda k: f"{k}/1"),
    st.sampled_from(["6/4", "1/0", "03/1", "+3/1", "-0/1", "1/2", "3", "\\u0033/1"]))
PAIRS_TEXT = st.lists(st.tuples(EXPONENT, COEFF_STRING), max_size=4).map(
    lambda pairs: "[" + ",".join(f'[{e},"{c}"]' for e, c in pairs) + "]")
# 1, q, Phi_1, Phi_2, Phi_3, q Phi_2 Phi_4 and the zero list; q^2 + 2 is
# not of the form q^a prod Phi_d^e
DEN_TEXT = st.one_of(st.sampled_from([
    '[[0,"1/1"]]', '[[1,"1/1"]]', '[[0,"-1/1"],[1,"1/1"]]', '[[0,"1/1"],[1,"1/1"]]',
    '[[0,"1/1"],[1,"1/1"],[2,"1/1"]]', '[[1,"1/1"],[2,"1/1"],[3,"1/1"],[4,"1/1"]]', "[]",
    '[[0,"2/1"],[2,"1/1"]]']), PAIRS_TEXT)
QRAT_TEXT = mostly(
    st.builds(lambda den, num: f'{{"den":{den},"num":{num}}}', DEN_TEXT, PAIRS_TEXT),
    st.builds(lambda den, num: f'{{"num":{num},"den":{den}}}', DEN_TEXT, PAIRS_TEXT))
XPOLY_TEXT = st.lists(st.tuples(EXPONENT, QRAT_TEXT), max_size=3).map(
    lambda terms: "[" + ",".join(f"[{j},{c}]" for j, c in terms) + "]")
ENCODING_TEXT = mostly(st.sampled_from(['"()"', '"(())"', '"(()())"', '"((()))"']),
                       st.sampled_from(['"\\u0028)"', '"x"', '"(()"', '""', "1"]))
ENTRY_TEXT = st.builds(lambda enc, sep, value: f"[{enc},{sep}{value}]",
                       ENCODING_TEXT, mostly(st.just(""), st.just(" ")),
                       st.one_of(QRAT_TEXT, XPOLY_TEXT, st.just("[]")))


def decoded_read(ring: str, order: int, entry: str):
    """What the csv hit reader gave for the text of an entry when it decoded
    every entry: (tree, the str of its value or None), or the exception."""
    try:
        enc, obj = json.loads(entry)
        t = T.parse(enc)
        if T.size(t) > order:
            raise ValueError("coefficient beyond the truncation order")
        v = serialize.value_from_obj(ring, obj)
        return t, str(v) if v else None
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return exc


def comparable(read):
    return (type(read), read.args) if isinstance(read, Exception) else read


class TestEntryGrammar:
    """The entry grammar and the value reader against the decoder: a text the
    grammar matches is canonical JSON, and a value read from its text is the
    value read from the decoded text."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(ENTRY_TEXT, st.sampled_from(["qrat", "xpoly"]), st.integers(1, 3))
    def test_grammar_and_value_reader_agree_with_the_decoder(self, entry, ring, order):
        import arborq.cli as cli

        found = C._entry_match()(entry)
        try:
            obj = json.loads(entry)
        except ValueError:
            obj = None
        if found and found.end() == len(entry):
            assert C.canonical_json(obj) == entry
        value = entry[entry.index(",") + 1:-1].lstrip()
        read = serialize.value_from_text(ring, value)
        if read is not None:
            assert serialize.value_from_obj(ring, json.loads(value)) == read
        # the hit reader is given canonical text: it reads as the decoder did
        if obj is not None and C.canonical_json(obj) == entry:
            assert comparable(cli._hit_reader(ring, order, str)(entry)) == comparable(
                decoded_read(ring, order, entry))

    @pytest.mark.parametrize("series, n", [
        (series, n) for series in sorted(SERIES)
        for n in {"F": [3], "G": [3], "pawn_at": [-3, 3]}.get(series, [None])])
    def test_every_entry_arborq_writes_matches_the_grammar(self, capsys, series, n):
        # a form of arborq's own that the grammar missed would send its
        # entries down the decoding path unnoticed
        ring = SERIES[series][0]
        argv = ["compute", series, "--order", "8", *([] if n is None else ["--n", str(n)])]
        _, out, _ = run_cli(argv, capsys)
        entries = json.loads(out)["entries"]
        assert entries
        for obj in entries:
            entry = C.canonical_json(obj)
            found = C._entry_match()(entry)
            assert found and found.end() == len(entry)
            value = C.canonical_json(obj[1])
            assert serialize.value_from_text(ring, value) == serialize.value_from_obj(
                ring, obj[1])

    @pytest.mark.parametrize("series", ["omega", "pawn"])
    @pytest.mark.parametrize("coeff, error", [
        ("3/2", None), ("1" * 641 + "/1", None), (5, "TypeError")])
    def test_an_entry_off_the_grammar_reads_as_it_did(self, tmp_path, capsys, series, coeff,
                                                      error):
        # a "p/r" that is no "k/1", a k of more than 640 digits and a
        # coefficient that is not a string are canonical JSON off the
        # grammar: decoded, accepted by a json hit and verify-hashes, and
        # read by a csv or tex hit as the decoding reader reads them
        cdir = str(tmp_path)
        value = {"den": [[0, "1/1"]], "num": [[0, coeff]]}
        entry = ["()", value if series == "omega" else [[0, value]]]
        assert C._entry_match()(C.canonical_json(entry)) is None
        payload = {"series": series, "params": {}, "order": 1, "entries": [entry]}
        path = C.store(cdir, C.make_key(series, {}, 1), [C.canonical_json(payload)])
        argv = ["compute", series, "--order", "1", "--cache-dir", cdir]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0 and json.loads(out) == payload
        assert run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)[0] == 0
        k = str(coeff).removesuffix("/1")
        want = {"csv": f"size,encoding,coefficient\n1,(),{k}\n",
                "tex": (f"% series {series}, order 1\n\\begin{{align*}}\n"
                        f"&{k} \\cdot \\texttt{{()}} \\\\\n\\end{{align*}}\n")}
        for fmt in ("csv", "tex"):
            code, out, err = run_cli([*argv, "--format", fmt], capsys)
            if error is None:
                assert (code, out, err) == (0, want[fmt], "")
            else:
                assert code == 1 and out == ""
                assert err.startswith(f"error: {path}: unreadable cached value ({error}(")

    @staticmethod
    def store_omega_entry(cdir: str, num: list) -> str:
        """The path of an omega entry of one value over 1 with numerator num,
        stored through store."""
        payload = {"series": "omega", "params": {}, "order": 1,
                   "entries": [["()", {"den": [[0, "1/1"]], "num": num}]]}
        return C.store(cdir, C.make_key("omega", {}, 1), [C.canonical_json(payload)])

    def test_an_entry_above_the_chunk_takes_the_grammar(self, tmp_path, capsys, monkeypatch):
        # one entry of about 200 KB: the load reads on until it is whole, and
        # matches it with no decoding
        cdir = str(tmp_path)
        path = self.store_omega_entry(cdir, [[e, f"{e + 1}/1"] for e in range(15_000)])
        assert os.path.getsize(path) > 3 * C._CHUNK
        decoded = []

        class Counting(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                obj, end = super().raw_decode(s, idx)
                decoded.append(obj)
                return obj, end

        monkeypatch.setattr(C, "_DECODER", Counting())
        with C.load(cdir, C.make_key("omega", {}, 1), lambda entry: entry) as entry:
            assert len(entry.items) == 1 and len(entry.items[0]) > 3 * C._CHUNK
        assert decoded == [C.make_key("omega", {}, 1), 1, {}, "omega"]

    def test_a_long_near_miss_entry_reads_as_it_did(self, tmp_path, capsys, monkeypatch):
        # an entry of about 600 KB with a negative exponent near its end: the
        # grammar fails on it in linear time and the decoder reads it, with no
        # whole-file parse; a json hit and verify-hashes accept it, and a csv
        # hit finds the value unreadable
        cdir = str(tmp_path)
        num = [[e, "1/1"] for e in range(45_000)]
        num[-2][0] = -1
        path = self.store_omega_entry(cdir, num)
        assert os.path.getsize(path) > 512_000

        def no_parse(*args, **kwargs):
            raise AssertionError("an entry file was parsed whole")

        monkeypatch.setattr(json, "load", no_parse)
        start = time.perf_counter()
        code, out, _ = run_cli(["compute", "omega", "--order", "1", "--cache-dir", cdir], capsys)
        assert code == 0 and json.loads(out)["entries"][0][1]["num"] == num
        assert run_cli(["cache", "verify-hashes", "--dir", cdir], capsys)[0] == 0
        code, out, err = run_cli(["compute", "omega", "--order", "1", "--format", "csv",
                                  "--cache-dir", cdir], capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: unreadable cached value (ValueError(")
        # a backtracking blow-up would take hours here; linear reading, well
        # under a second
        assert time.perf_counter() - start < 20


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "sharp_reformulation", "--max-order", "4"], capsys
        )
        assert code == 0
        assert "PASS" in out and "1/1 checks passed" in out

    def test_n_range_flag(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "valeur_n_negatif", "--max-order", "4",
             "--n-range", "2..3"],
            capsys,
        )
        assert code == 0

    def test_failure_prints_the_witness(self, capsys, monkeypatch):
        corrupt(monkeypatch, CORRUPT_TREE, {5: (1,)})
        code, out, _ = run_cli(["verify", "--suite", "x_infinity", "--max-order", "5"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("FAIL  x_infinity ")
        assert lines[1] == ('      witness: {"degree":"5","size":"4","tree":"%s"}'
                            % T.encoding(CORRUPT_TREE))
        assert lines[2:] == ["0/1 checks passed"]

    def test_multiple_suites(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "q1_no_pole,associativity", "--max-order", "4"], capsys
        )
        assert code == 0
        assert "2/2 checks passed" in out


# the ten checks of the qrat_oracles workload in perfbench/run.py
BENCH_SUITE = ("oracle_interpolation,oracle_colorings,valeur_n_positif,valeur_n_negatif,"
               "valeur_speciale,action_delta,prop_gen,associativity,suspension_formula,"
               "sharp_reformulation")
TIMING_COLUMN = re.compile(r"(?m) +\d+\.\d+s$")


@pytest.fixture
def forks(monkeypatch):
    """Count the forks of this process, with os.cpu_count() giving 2 so that
    no run starts more than two workers; after the test, every worker has
    been reaped."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    yield pids
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyWorkers:
    """verify --workers N runs the checks on forked workers and prints what
    the in-process loop prints."""

    @pytest.mark.parametrize("suite, max_order", [(BENCH_SUITE, "6"), ("all", "4")])
    def test_output_is_the_same_at_any_worker_count(self, suite, max_order, forks, capsys,
                                                    monkeypatch):
        # the checks this process runs; a worker's calls stay in its own copy
        here = []
        check = vf.check_theorem
        monkeypatch.setattr(vf, "check_theorem", lambda *a, **k: here.append(a) or check(*a, **k))
        outs = []
        for workers in ("1", "2", "3"):
            code, out, err = run_cli(["verify", "--suite", suite, "--max-order", max_order,
                                      "--workers", workers], capsys)
            assert code == 0 and err == ""
            outs.append(TIMING_COLUMN.sub(" #s", out))
        assert outs[0] == outs[1] == outs[2]
        passed = outs[0].count("PASS")
        assert outs[0].endswith(f"{passed}/{passed} checks passed\n")
        assert len(forks) == 4 and len(here) == passed

    def test_a_failure_crosses_the_pipe(self, forks, capsys, monkeypatch):
        # the workers inherit the corrupted memo through the fork
        corrupt(monkeypatch, CORRUPT_TREE, {5: (1,)})
        argv = ["verify", "--suite", "sharp_reformulation,x_infinity", "--max-order", "5"]
        code, out, _ = run_cli([*argv, "--workers", "1"], capsys)
        assert code == 1 and not forks
        code2, out2, _ = run_cli([*argv, "--workers", "2"], capsys)
        assert code2 == 1 and len(forks) == 2
        assert TIMING_COLUMN.sub(" #s", out2) == TIMING_COLUMN.sub(" #s", out)
        lines = out2.splitlines()
        assert lines[0].startswith("FAIL  sharp_reformulation ")
        assert lines[2].startswith("FAIL  x_infinity ")
        assert lines[3] == ('      witness: {"degree":"5","size":"4","tree":"%s"}'
                            % T.encoding(CORRUPT_TREE))
        assert lines[4:] == ["0/2 checks passed"]

    def test_a_check_that_raises_is_raised_by_the_parent(self, forks, capsys, monkeypatch):
        def boom(report, max_order, **_):
            raise ArithmeticError("boom in a worker")

        monkeypatch.setitem(vf._THEOREMS, "prop_gen", (boom, 6))
        with pytest.raises(RuntimeError, match="check 'prop_gen' raised") as exc:
            run_cli(["verify", "--suite", "q1_no_pole,prop_gen,associativity",
                     "--max-order", "4", "--workers", "2"], capsys)
        assert "ArithmeticError: boom in a worker" in str(exc.value)
        assert len(forks) == 2 and capsys.readouterr().out == ""

    def test_a_worker_that_dies_is_reported(self, forks, monkeypatch):
        parent = os.getpid()

        def die(report, max_order, **_):
            if os.getpid() != parent:
                os._exit(3)
            raise AssertionError("ran in the parent")

        monkeypatch.setitem(vf._THEOREMS, "prop_gen", (die, 6))
        with pytest.raises(RuntimeError, match="without the reports of prop_gen"):
            list(vf.run_checks(["prop_gen", "q1_no_pole"], 2, 4))
        assert len(forks) == 2

    def test_workers_are_capped_by_the_cpu_count(self, forks, capsys, monkeypatch):
        argv = ["verify", "--suite", BENCH_SUITE, "--max-order", "3", "--workers", "64"]
        assert run_cli(argv, capsys)[0] == 0
        assert len(forks) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run_cli(argv, capsys)[0] == 0
        assert len(forks) == 2
        # the task pipe carries one byte per check index
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        reports = list(vf.run_checks(["fbar_vs_cover"] * 257, 2, 1))
        assert len(reports) == 257 and all(r.ok() for r in reports)
        assert len(forks) == 2

    def test_no_fork_while_another_thread_runs(self, forks, capsys):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(30,))
        waiter.start()
        try:
            code, out, _ = run_cli(["verify", "--suite", "q1_no_pole,prop_gen",
                                    "--max-order", "3", "--workers", "2"], capsys)
        finally:
            release.set()
            waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert code == 0 and out.endswith("2/2 checks passed\n") and not forks

    def test_traced_run_prints_once(self, tmp_path):
        # a worker that returned into perfbench/tracer.py would print and
        # write its spans a second time
        spans = tmp_path / "spans.json"
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "tracer.py"), str(spans),
             "verify", "--suite", BENCH_SUITE, "--max-order", "6", "--workers", "2"],
            capture_output=True, text=True, cwd=root, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == len(set(lines)) == 11
        assert lines[-1] == "10/10 checks passed"
        record = json.loads(spans.read_text())
        assert {"root_s", "stats", "main", "import_s"} <= set(record)


class TestConjectureCommand:
    def test_corolla(self, capsys):
        code, out, _ = run_cli(["conjecture", "corolla-denominator", "--max-n", "6"], capsys)
        assert code == 0 and "PASS" in out

    def test_corolla_failure_prints_the_witness(self, capsys, monkeypatch):
        # the 2-corolla given the 1-corolla's value, whose denominator lacks Phi_3
        monkeypatch.setitem(S._COROLLA, 2, S.pawn_corolla(1))
        code, out, _ = run_cli(["conjecture", "corolla-denominator", "--max-n", "3"], capsys)
        assert code == 1
        status, witness = out.splitlines()
        assert status.startswith("FAIL  corolla_denominator ")
        assert witness == '      witness: {"denominator":"q + 1","factors":"{2: 1}","n":"2"}'

    def test_corolla_denominator_of_another_form_fails(self, capsys, monkeypatch):
        # a denominator that is not q^a prod Phi_d^e is a FAIL with a witness
        monkeypatch.setitem(S._COROLLA, 1, XPoly((QRat(1, QPoly((2, 0, 1))),)))
        code, out, _ = run_cli(["conjecture", "corolla-denominator", "--max-n", "3"], capsys)
        assert code == 1
        status, witness = out.splitlines()
        assert status.startswith("FAIL  corolla_denominator ")
        assert witness == ('      witness: {"denominator":"q^2 + 2 is not q^a prod Phi_d^e",'
                           '"n":"1"}')

    def test_newton(self, capsys):
        code, out, _ = run_cli(["conjecture", "newton", "--max-size", "5"], capsys)
        assert code == 0 and "PASS" in out

    def test_partition(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "partition", "--lam", "1", "--k", "3"], capsys
        )
        assert code == 0 and "PASS" in out

    def test_partition_inconclusive_when_capped(self, capsys):
        code, out, _ = run_cli(
            ["conjecture", "partition", "--lam", "2,1", "--k", "5", "--order-cap", "12"],
            capsys,
        )
        assert code == 0 and "INCONCLUSIVE" in out

    def test_bad_partition_and_range_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["conjecture", "partition", "--lam", "x,y", "--k", "3"])
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "valeur_n_negatif", "--n-range", "abc"])


class TestUsageErrors:
    """A bad argument is a usage error: argparse exits with code 2 and a
    one-line message, never a traceback and never the exit code 1 of a failed
    check or a vacuous PASS."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["compute", "pawn", "--order", "0"], "--order"),
            (["compute", "F", "--n", "1", "--order", "-1"], "--order"),
            (["compute", "pawn", "--order", "2", "--workers", "0"], "--workers"),
            (["compute", "F", "--order", "3"], "--n"),
            (["compute", "G", "--order", "3"], "--n"),
            (["compute", "F", "--n", "-1", "--order", "3"], "--n"),
            (["compute", "pawn_at", "--order", "3"], "--n"),
            (["verify", "--suite", "prop_gen", "--workers", "0"], "--workers"),
            (["verify", "--suite", "x_infinity", "--max-order", "0"], "--max-order"),
            (["verify", "--suite", "nosuch"], "nosuch"),
            (["verify", "--suite", ","], "--suite"),
            (["verify", "--suite", "valeur_n_negatif", "--n-range", "abc"], "--n-range"),
            (["conjecture", "newton", "--max-size", "0"], "--max-size"),
            (["conjecture", "corolla-denominator", "--max-n", "-1"], "--max-n"),
            (["conjecture", "partition", "--lam", "0", "--k", "3"], "--lam"),
            (["conjecture", "partition", "--lam", "x,y", "--k", "3"], "--lam"),
            (["verify", "--suite", "valeur_n_positif,oracle_colorings", "--n-range", "4..2",
              "--max-order", "4"], "--n-range"),
            (["verify", "--suite", "valeur_n_positif", "--n-range=-1..2"], "--n-range"),
            (["verify", "--suite", "valeur_n_negatif", "--n-range", "0..1"], "--n-range"),
            (["compute", "omega", "--n", "5", "--order", "2"], "--n"),
            (["conjecture", "partition", "--lam", "1", "--k", "0"], "--k"),
            (["conjecture", "partition", "--lam", "1", "--k", "-1"], "--k"),
            (["conjecture", "partition", "--lam", "1", "--k", "3", "--order-cap", "-5"],
             "--order-cap"),
            (["conjecture", "partition", "--lam", "1", "--k", "3", "--order-cap", "0"],
             "--order-cap"),
            # a flag of another sweep
            (["conjecture", "newton", "--max-n", "5", "--max-size", "3"], "--max-n"),
            (["conjecture", "corolla-denominator", "--max-size", "3", "--lam", "1",
              "--max-n", "3"], "--max-size"),
            # the partition conjecture is stated for odd k >= 3 only
            (["conjecture", "partition", "--lam", "1", "--k", "1"], "--k"),
            (["conjecture", "partition", "--lam", "1", "--k", "2"], "--k"),
            (["conjecture", "partition", "--lam", "1", "--k", "4"], "--k"),
        ],
    )
    def test_exit_code_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and flag in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "name, max_order, kwargs, argv, flag",
        [
            ("oracle_colorings", None, {"bound": 0}, ["--coloring-bound", "0"],
             "--coloring-bound"),
            ("q1_no_pole", -2, {}, ["--max-order", "-2"], "--max-order"),
            ("valeur_n_negatif", None, {"n_range": (3, 1)}, ["--n-range", "3..1"], "--n-range"),
        ],
    )
    def test_verify_rejects_what_check_theorem_rejects(self, name, max_order, kwargs, argv,
                                                      flag, capsys):
        with pytest.raises(ValueError):
            vf.check_theorem(name, max_order, **kwargs)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", name, *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}:" in err and "Traceback" not in err

    def test_no_traceback_from_the_command_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "arborq", "compute", "pawn", "--order", "0"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "arborq compute: error: argument --order: must be >= 1, got 0")

"""Command-line entry point.

Subcommands:
  compute     solve a series and print its coefficient table (json/csv/tex)
  verify      run the theorem/oracle check suites, nonzero exit on failure
  conjecture  run the conjecture sweeps (corolla-denominator, newton, partition)
  cache       maintain the on-disk coefficient cache (list, gc, verify-hashes)

Output is deterministic: two identical invocations produce byte-identical
output, whatever their --workers.  verify --workers N runs the checks on up
to N forked processes, at most one per CPU and one per check, and prints
their reports in suite order (verify.run_checks).  compute accepts and
checks --workers (>= 1) for compatibility, and runs on one thread.

At module level this file imports only the standard library and the cache,
which needs nothing else.  Each handler imports the layers it runs, so a json
cache hit, `cache list` and `cache verify-hashes` never load the solver,
algebra, verify or serialize modules.  The entry grammar of the cache and
the value patterns serialize compiles from it are compiled on first use, so
a command that reads no cache entry compiles neither.

A compute writes its output one tree at a time.  A cold compute solves,
reduces and writes each tree in turn: the json text goes to the output, or
into the cache entry and then from it to the output, and a csv or tex row is
rendered from the same value.  A csv or tex cache hit renders each entry as
the load checks it, with no series of values built: the value of an entry
of the form arborq writes is read straight from its text
(serialize.value_from_text), and any other entry is decoded.  A tex value is
written over the exponents of its denominator q^a prod Phi_d^e alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from . import cache as cache_mod
from .cache import canonical_json

if TYPE_CHECKING:
    from .algebra import QPoly, QRat, XPoly

CACHE_DIR_ENV = "ARBORQ_CACHE_DIR"
COSTLY_ORDER = 11

# name -> (ring, the usage of --n after "requires --n" or None if the series
# takes none, values).  values is given the solvers module, n and the order,
# so that importing the CLI loads no math layer, and gives (tree, value) for
# each tree up to the order, sorted by (size, encoding).
SERIES = {
    "pawn": ("xpoly", None, lambda sv, n, order: sv.pawn_values(order)),
    "E": ("qrat", None, lambda sv, n, order: sv.series_E(order).items()),
    "F": ("qrat", ">= 0", lambda sv, n, order: sv.coloring_series(order, n, "weak").items()),
    "G": ("qrat", ">= 0", lambda sv, n, order: sv.coloring_series(order, n, "strict").items()),
    "omega": ("qrat", None, lambda sv, n, order: sv.solve_omega(order).items()),
    "omega_bar": ("qrat", None, lambda sv, n, order: sv.solve_omega_bar(order).items()),
    "pawn_at": ("qrat", "(the q-integer)",
                lambda sv, n, order: sv.eval_pawn_at_qint(order, n).items()),
}


def _check_compute_args(parser: argparse.ArgumentParser, args) -> None:
    n_usage = SERIES[args.series][1]
    if n_usage is None:
        if args.n is not None:
            parser.error(f"series {args.series} takes no --n")
    elif args.n is None or (n_usage == ">= 0" and args.n < 0):
        parser.error(f"series {args.series} requires --n {n_usage}")


VERIFY_FLAGS = {"max_order": "--max-order", "n_range": "--n-range", "bound": "--coloring-bound"}


def _check_verify_args(parser: argparse.ArgumentParser, args) -> None:
    # the rule check_theorem enforces, reported as a usage error
    from . import verify as vf

    for name in args.suite:
        bad = vf.theorem_param_error(name, args.max_order, args.n_range, args.coloring_bound)
        if bad is not None:
            parser.error(f"argument {VERIFY_FLAGS[bad[0]]}: {bad[1]}")


# ---------------------------------------------------------------------------
# Renderers


def _qpoly_tex(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, num, den in reversed(p.terms()):
        mag = str(abs(num))
        mono = "" if e == 0 else ("q" if e == 1 else f"q^{{{e}}}")
        if e == 0:
            body = mag if den == 1 else f"{mag}/{den}"
        elif mag == "1" and den == 1:
            body = mono
        else:
            body = (mag if den == 1 else f"\\tfrac{{{mag}}}{{{den}}}") + mono
        sign = "-" if num < 0 else ("+" if parts else "")
        parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
    return " ".join(parts)


def _over_tex(num: str, exps) -> str:
    """The tex num over the denominator q^a prod Phi_d^e with the pairs (d, e)
    exps, as cyclotomic_exponents gives them: the Phi_d, then (q^{a})."""
    if not exps:
        return num
    den = "".join(f"\\Phi_{{{d}}}" + (f"^{{{e}}}" if e > 1 else "") for d, e in exps if d)
    if exps[0][0] == 0:
        den += "(q)" if exps[0][1] == 1 else f"(q^{{{exps[0][1]}}})"
    return f"\\frac{{{num}}}{{{den}}}"


def _qrat_tex(r: QRat) -> str:
    from .algebra import cyclotomic_exponents

    return _over_tex(_qpoly_tex(r.num), cyclotomic_exponents(r.den))


def _xpoly_tex(f: XPoly) -> str:
    """The tex of f over the lcm of its coefficient denominators: each
    numerator times the product of the lcm's exponents less its own."""
    from .algebra import cyclotomic_exponents, cyclotomic_product, xpoly_denominator

    top = xpoly_denominator(f)
    rows = []
    for j in range(f.degree, -1, -1):
        c = f.coeffs[j]
        if c.is_zero():
            continue
        own = dict(cyclotomic_exponents(c.den))
        cofactor = cyclotomic_product(tuple((d, e - own.get(d, 0)) for d, e in top
                                            if e > own.get(d, 0)))
        body = _qpoly_tex(c.num * cofactor)
        if j == 0:
            rows.append(body)
        else:
            mono = "x" if j == 1 else f"x^{{{j}}}"
            rows.append(f"({body}){mono}" if " " in body else f"{body}{mono}")
    return _over_tex(" + ".join(rows) if rows else "0", top)


def _coefficient_text(fmt: str, ring: str):
    """The text of a value in a csv or tex row: the value's own str, or its
    tex, in parentheses when it is a sum that is not a fraction."""
    if fmt == "csv":
        return str

    def tex(v) -> str:
        coeff = _xpoly_tex(v) if ring == "xpoly" else _qrat_tex(v)
        if not coeff.startswith("\\frac") and " " in coeff:
            coeff = f"\\left({coeff}\\right)"
        return coeff

    return tex


def _write_table(out, fmt: str, name: str, order: int, rows) -> None:
    """Write the csv or tex table of the (tree, coefficient text) rows."""
    from . import trees as tr

    if fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["size", "encoding", "coefficient"])
        for t, text in rows:
            writer.writerow([tr.size(t), tr.encoding(t), text])
        return
    out.write(f"% series {name}, order {order}\n\\begin{{align*}}\n")
    for t, text in rows:
        aut = tr.aut_order(t)
        tree_part = (
            f"\\frac{{\\texttt{{{tr.encoding(t)}}}}}{{{aut}}}"
            if aut > 1
            else f"\\texttt{{{tr.encoding(t)}}}"
        )
        out.write(f"&{text} \\cdot {tree_part} \\\\\n")
    out.write("\\end{align*}\n")


# what reading a cached value raises when the value is unreadable
_UNREADABLE = (ValueError, KeyError, TypeError, ArithmeticError)


def _hit_reader(ring: str, order: int, text):
    """The load's each for a csv or tex hit: (tree, coefficient text, or None
    for a zero value) of the canonical text of one entry, or what reading it
    raised; an entry beyond the order is unreadable, as it is in a
    TreeSeries.  An entry ["E",V] whose encoding E is all parentheses has V
    read straight from its text; any other entry, or a V that reader leaves,
    is decoded."""
    import json

    from . import trees as tr
    from .serialize import value_from_obj, value_from_text

    def read(entry):
        try:
            i = entry.find('",', 2)
            enc = entry[2:i]
            v = None
            if entry.startswith('["') and i > 2 and not enc.strip("()"):
                v = value_from_text(ring, entry[i + 2:-1])
            if v is None:
                enc, obj = json.loads(entry)
            t = tr.parse(enc)
            if tr.size(t) > order:
                raise ValueError("coefficient beyond the truncation order")
            if v is None:
                v = value_from_obj(ring, obj)
            return t, text(v) if v else None
        except _UNREADABLE as exc:  # reported only if the entry passes its checks
            return exc

    return read


def _hit_rows(items):
    """The rows of the (tree, text) items a hit read: as a series holds them,
    the last value of a tree kept, zeros dropped, sorted by (size, encoding).
    The first entry that could not be read raises what it raised."""
    from . import trees as tr

    for item in items:
        if isinstance(item, Exception):
            raise item
    rows = dict(items)
    return [(t, rows[t]) for t in sorted(rows, key=tr.tree_sort_key) if rows[t] is not None]


def _json(write_payload):
    """The output of a json compute: the payload, then a newline."""
    def write(out) -> None:
        write_payload(out)
        out.write("\n")

    return write


def _emit(args, write) -> int:
    """Call write on the output stream: the --out file, or stdout."""
    if not args.out:
        write(sys.stdout)
        return 0
    try:
        with open(args.out, "w") as fh:
            write(fh)
    except OSError as exc:
        print(f"error: cannot write the output file: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Subcommands


def cmd_compute(args) -> int:
    params = {} if args.n is None else {"n": args.n}
    key = cache_mod.make_key(args.series, params, args.order)
    cache_dir = args.cache_dir or os.environ.get(CACHE_DIR_ENV)
    ring, _, values = SERIES[args.series]
    fmt = args.format
    # csv and tex load their layers before a hit reads its file; a json hit
    # prints the checked text and loads none
    text = None if fmt == "json" else _coefficient_text(fmt, ring)

    def table(rows):
        return lambda out: _write_table(out, fmt, args.series, args.order, rows)

    if cache_dir:
        try:
            hit = cache_mod.load(cache_dir, key,
                                 None if text is None else _hit_reader(ring, args.order, text))
        except cache_mod.CacheError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if hit is not None:
            with hit:  # a json hit copies the payload out of the file it checked
                if text is None:
                    return _emit(args, _json(hit.write_payload))
            try:
                rows = _hit_rows(hit.items)
            except _UNREADABLE as exc:
                print(f"error: {cache_mod.entry_path(cache_dir, key)}: unreadable cached "
                      f"value ({exc!r})", file=sys.stderr)
                return 1
            return _emit(args, table(rows))

    from . import solvers
    from .serialize import entries_json

    if args.order >= COSTLY_ORDER:
        print(f"warning: order {args.order} solves thousands of tree classes "
              f"exactly; expect a long run", file=sys.stderr)
    pairs = values(solvers, args.n, args.order)
    if not cache_dir:
        if text is not None:
            return _emit(args, table((t, text(v)) for t, v in pairs if v))
        pieces = cache_mod.payload_pieces(args.series, params, args.order,
                                          entries_json(ring, pairs))
        return _emit(args, _json(lambda out: out.writelines(pieces)))

    # the entry is written as the trees are solved; the output follows it, so
    # a store that fails leaves stdout empty
    rows = []

    def rendered(pairs):
        for t, v in pairs:
            if v:
                rows.append((t, text(v)))
            yield t, v

    entries = entries_json(ring, pairs if text is None else rendered(pairs))
    try:
        path = cache_mod.store(cache_dir, key, cache_mod.payload_pieces(
            args.series, params, args.order, entries))
    except OSError as exc:
        print(f"error: cannot write the cache entry: {exc}", file=sys.stderr)
        return 1
    if text is None:
        return _emit(args, _json(lambda out: cache_mod.copy_payload(path, key, out)))
    return _emit(args, table(rows))


# ---------------------------------------------------------------------------
# Argument types: a bad value is a usage error (exit 2), never a failed check


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive = _int_at_least(1)
_nonnegative = _int_at_least(0)


def _odd_at_least_3(text: str) -> int:
    # the range the partition conjecture states (check_partition_conjecture)
    value = _int_at_least(3)(text)
    if value % 2 == 0:
        raise argparse.ArgumentTypeError(f"must be odd, got {value}")
    return value


def _suite(text: str) -> list[str]:
    from . import verify as vf

    if text == "all":
        return list(vf.THEOREM_NAMES)
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no check named")
    for name in names:
        if name not in vf.THEOREM_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown check {name!r}; known: {', '.join(vf.THEOREM_NAMES)}")
    return names


def _range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected e.g. 2..4") from None
    return lo, hi


def _partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(",") if p)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad partition {text!r}, expected e.g. 2,1") from None
    if any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"partition parts must be positive, got {text!r}")
    return parts


def _print_report(report) -> int:
    """Print a check's status line, and its witness if it failed; return the
    number of failures it counts for (0 or 1)."""
    print(f"{report.status.upper():4s}  {report.name:24s} {report.seconds:8.2f}s")
    if report.ok():
        return 0
    print(f"      witness: {canonical_json(report.witness)}")
    return 1


def cmd_verify(args) -> int:
    from . import verify as vf

    names = args.suite
    failures = sum(map(_print_report, vf.run_checks(names, args.workers, args.max_order,
                                                    args.n_range, args.coloring_bound)))
    print(f"{len(names) - failures}/{len(names)} checks passed")
    return 1 if failures else 0


def _progress(msg: str) -> None:
    print(f"  .. {msg}", file=sys.stderr)


def _partition_sweep(vf, args):
    try:
        return vf.check_partition_conjecture(args.lam, args.k, args.order_cap)
    except ValueError as exc:  # the tree is above --order-cap
        print(f"INCONCLUSIVE  partition: {exc}")
        return None


def cmd_conjecture(args) -> int:
    from . import verify as vf

    report = args.sweep(vf, args)
    return 0 if report is None else _print_report(report)


def cmd_cache(args) -> int:
    directory = args.dir or os.environ.get(CACHE_DIR_ENV)
    if not directory:
        print(f"error: give --dir or set {CACHE_DIR_ENV}", file=sys.stderr)
        return 2
    if not os.path.isdir(directory):
        print(f"error: cache directory {directory!r} is not a directory", file=sys.stderr)
        return 2
    if args.action == "gc":
        try:
            removed = cache_mod.gc(directory)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"removed {removed} stale entries")
        return 0
    count = bad = 0
    for name, entry in cache_mod.scan(directory):
        count += 1
        corrupt = isinstance(entry, cache_mod.CacheError)
        bad += corrupt
        if args.action == "verify-hashes":
            print(f"{'BAD ' if corrupt else 'ok  '} {name}")
        elif corrupt:
            print(f"{name}  corrupt: {entry}")
        else:
            key = entry.key
            print(f"{name}  {key.get('series')}  params={canonical_json(key.get('params'))} "
                  f"order={key.get('order')} v{key.get('version')} sha={entry.sha256[:12]}")
    if args.action == "list":
        print(f"{count} entries")
        return 0
    print(f"{count - bad}/{count} entries verified")
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborq",
        description="Exact tree-indexed q-series: compute, specialize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a series coefficient table")
    p.add_argument("series", choices=sorted(SERIES))
    p.add_argument("--n", type=int, default=None,
                   help="parameter for F/G (color bound) or pawn_at (q-integer)")
    p.add_argument("--order", type=_positive, default=6)
    p.add_argument("--format", choices=("json", "csv", "tex"), default="json")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--workers", type=_positive, default=1,
                   help="accepted for compatibility (must be >= 1); has no effect")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run theorem and oracle check suites")
    p.add_argument("--suite", type=_suite, default="all",
                   help="'all' or comma-separated check names "
                        "(an unknown name lists them)")
    # verify.theorem_param_error judges these three (see _check_verify_args)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--n-range", type=_range, default=None, help="like 2..4")
    p.add_argument("--coloring-bound", type=int, default=None)
    p.add_argument("--workers", type=_positive, default=1,
                   help="run the checks on up to this many forked processes, at most one "
                        "per CPU; the output is the same at any count")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("conjecture", help="run a conjecture sweep")
    p.set_defaults(fn=cmd_conjecture)
    # one parser per sweep, so a flag of another sweep is a usage error
    sweeps = p.add_subparsers(dest="name", required=True)
    p = sweeps.add_parser("corolla-denominator")
    p.add_argument("--max-n", type=_nonnegative, default=12)
    p.set_defaults(sweep=lambda vf, a: vf.check_corolla_denominator(a.max_n, progress=_progress))
    p = sweeps.add_parser("newton")
    p.add_argument("--max-size", type=_positive, default=8)
    p.set_defaults(sweep=lambda vf, a: vf.check_newton_sweep(a.max_size, progress=_progress))
    p = sweeps.add_parser("partition")
    p.add_argument("--lam", type=_partition, default=(),
                   help="partition, comma separated (e.g. 2,1)")
    p.add_argument("--k", type=_odd_at_least_3, default=3)
    p.add_argument("--order-cap", type=_positive, default=12)
    p.set_defaults(sweep=_partition_sweep)

    p = sub.add_parser("cache", help="maintain the on-disk cache")
    p.add_argument("action", choices=("list", "gc", "verify-hashes"))
    p.add_argument("--dir", default=None)
    p.set_defaults(fn=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        _check_compute_args(parser, args)
    elif args.command == "verify":
        _check_verify_args(parser, args)
    return args.fn(args)


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: exit 1 quietly, with stdout on
        # devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()

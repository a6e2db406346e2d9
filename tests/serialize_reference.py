"""The object path of the canonical serialization, kept as a test reference.

Each value becomes a JSON object (value_to_obj) and cache.canonical_json
encodes it; series_from_obj reads a whole series back into a TreeSeries.
The CLI writes the same text straight from the values' ints
(serialize.entries_json) and reads a cache hit one entry at a time, so the
tests pin both against this path.  It also covers the "rational" ring,
which no command prints.
"""

from __future__ import annotations

from fractions import Fraction

from arborq import trees as tr
from arborq.algebra import QPoly, QRat, XPoly
from arborq.cache import canonical_json
from arborq.serialize import qrat_from_obj, xpoly_from_obj
from arborq.series import TreeSeries


def frac_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def qpoly_to_pairs(p: QPoly) -> list:
    return [[e, f"{n}/{d}"] for e, n, d in p.terms()]


def qrat_to_obj(r: QRat) -> dict:
    return {"num": qpoly_to_pairs(r.num), "den": qpoly_to_pairs(r.den)}


def xpoly_to_obj(f: XPoly) -> list:
    return [[j, qrat_to_obj(c)] for j, c in enumerate(f.coeffs) if not c.is_zero()]


# ring -> (writer, reader) of one coefficient
_CODECS = {
    "rational": (frac_to_str, Fraction),
    "qrat": (qrat_to_obj, qrat_from_obj),
    "xpoly": (xpoly_to_obj, xpoly_from_obj),
}


def value_to_obj(ring: str, v):
    return _CODECS[ring][0](v)


def value_from_obj(ring: str, obj):
    return _CODECS[ring][1](obj)


def series_entries(s: TreeSeries):
    """The [encoding, value] entries of a series, sorted by (size, encoding)."""
    for t, v in s.items():
        yield [tr.encoding(t), value_to_obj(s.ring, v)]


def series_to_obj(s: TreeSeries) -> dict:
    return {"order": s.order, "ring": s.ring, "entries": list(series_entries(s))}


def series_from_obj(obj) -> TreeSeries:
    ring = obj["ring"]
    coeffs = {tr.parse(enc): value_from_obj(ring, v) for enc, v in obj["entries"]}
    return TreeSeries(obj["order"], ring, coeffs)


def render_table(series: TreeSeries, fmt: str, name: str) -> str:
    """The csv or tex table of a whole series, each value rendered by the
    CLI's formatters: the object path of a csv or tex hit."""
    import csv
    import io

    from arborq import cli

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["size", "encoding", "coefficient"])
        for t, v in series.items():
            writer.writerow([tr.size(t), tr.encoding(t), str(v)])
        return buf.getvalue()
    lines = [f"% series {name}, order {series.order}", "\\begin{align*}"]
    for t, v in series.items():
        coeff = cli._xpoly_tex(v) if series.ring == "xpoly" else cli._qrat_tex(v)
        if not coeff.startswith("\\frac") and " " in coeff:
            coeff = f"\\left({coeff}\\right)"
        aut = tr.aut_order(t)
        tree_part = (
            f"\\frac{{\\texttt{{{tr.encoding(t)}}}}}{{{aut}}}"
            if aut > 1
            else f"\\texttt{{{tr.encoding(t)}}}"
        )
        lines.append(f"&{coeff} \\cdot {tree_part} \\\\")
    lines.append("\\end{align*}")
    return "\n".join(lines) + "\n"


def entry_text(ring: str, t: int, v) -> str:
    """The reference text of one entry, for the pins of serialize.entries_json."""
    return canonical_json([tr.encoding(t), value_to_obj(ring, v)])


"""Canonical serialization.

One format family covers everything: rationals are "p/r" decimal strings,
q-polynomials are sparse [exponent, "p/r"] pair lists with exponents
ascending, a rational function is {"num": ..., "den": ...}, an x-polynomial
is a [x-exponent, rational-function] pair list, and a tree series is
{"order", "ring", "entries"} with entries sorted by (size, encoding).
The canonical JSON form (sorted keys, no spaces, trailing newline added by
callers) is byte-stable across runs, which the cache hashes rely on; it is
cache.canonical_json, defined there so that the cache needs no math layer.
series_entries yields the entries one at a time, so that cache.payload_text
can encode a payload without holding all of its entries.

Reading a series back needs no polynomial gcd.  Each "p/r" string is parsed
once (the parser is memoized; a series repeats few distinct strings): the
canonical "k/1" of an integer by int, any other string by Fraction.  A
q-polynomial is built as one integer polynomial over the lcm of its
denominators.  A stored value was written reduced over a product of
cyclotomic polynomials, so algebra.qrat_certified checks that no Phi_d of
the denominator divides the numerator instead of taking a gcd; any other
input is reduced exactly by QRat, so a value read is the canonical QRat
whatever the file holds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .algebra import QPoly, QRat, QSeries, XPoly, qrat_certified
from .cache import canonical_json  # noqa: F401  (re-exported)
from . import trees as tr
from .series import TreeSeries


def frac_to_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@lru_cache(maxsize=None)
def frac_from_str(s: str) -> Fraction:
    return Fraction(s)


@lru_cache(maxsize=None)
def _coeff_from_str(s: str) -> int | Fraction:
    """The value of a "p/r" string: an int for the canonical "k/1" of an
    integer k, else frac_from_str(s)."""
    if s.endswith("/1"):
        k = s[:-2]
        try:
            value = int(k)
        except ValueError:
            pass
        else:
            if str(value) == k:
                return value
    return frac_from_str(s)


def qpoly_to_pairs(p: QPoly) -> list:
    return [[e, f"{n}/{d}"] for e, n, d in p.terms()]


def qpoly_from_pairs(pairs) -> QPoly:
    if not pairs:
        return QPoly()
    coeffs = [(e, _coeff_from_str(s)) for e, s in pairs]
    den = math.lcm(*(c.denominator for _, c in coeffs))
    ints = [0] * (max(e for e, _ in coeffs) + 1)
    for e, c in coeffs:
        ints[e] = c.numerator * (den // c.denominator)
    return QPoly.from_ints(ints, den)


def qrat_to_obj(r: QRat) -> dict:
    return {"num": qpoly_to_pairs(r.num), "den": qpoly_to_pairs(r.den)}


def qrat_from_obj(obj) -> QRat:
    return qrat_certified(qpoly_from_pairs(obj["num"]), qpoly_from_pairs(obj["den"]))


def xpoly_to_obj(f: XPoly) -> list:
    return [[j, qrat_to_obj(c)] for j, c in enumerate(f.coeffs) if not c.is_zero()]


def xpoly_from_obj(obj) -> XPoly:
    if not obj:
        return XPoly()
    top = max(j for j, _ in obj)
    coeffs: list = [0] * (top + 1)
    for j, o in obj:
        coeffs[j] = qrat_from_obj(o)
    return XPoly(coeffs)


def qseries_to_obj(s: QSeries) -> dict:
    return {"order": s.order, "coeffs": [frac_to_str(c) for c in s.coeffs]}


def qseries_from_obj(obj) -> QSeries:
    return QSeries([frac_from_str(c) for c in obj["coeffs"]], obj["order"])


# ring -> (writer, reader) of one coefficient
_CODECS = {
    "rational": (frac_to_str, frac_from_str),
    "qrat": (qrat_to_obj, qrat_from_obj),
    "xpoly": (xpoly_to_obj, xpoly_from_obj),
    "qseries": (qseries_to_obj, qseries_from_obj),
}


def value_to_obj(ring: str, v):
    return _CODECS[ring][0](v)


def value_from_obj(ring: str, obj):
    return _CODECS[ring][1](obj)


def series_entries(s: TreeSeries):
    """Yield the [encoding, value] entries of a series one at a time, in the
    order of its items: sorted by (size, encoding)."""
    for t, v in s.items():
        yield [tr.encoding(t), value_to_obj(s.ring, v)]


def series_to_obj(s: TreeSeries) -> dict:
    return {"order": s.order, "ring": s.ring, "entries": list(series_entries(s))}


def series_from_obj(obj) -> TreeSeries:
    """The series of {"order", "ring", "entries"}; the entries may be any
    iterable, read once."""
    ring = obj["ring"]
    coeffs = {tr.parse(enc): value_from_obj(ring, v) for enc, v in obj["entries"]}
    return TreeSeries(obj["order"], ring, coeffs)

